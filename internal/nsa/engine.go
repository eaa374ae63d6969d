package nsa

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/obs"
)

// Chooser selects which of the enabled transitions to fire. The paper proves
// all choices yield equivalent system traces; the engine defaults to the
// first transition in canonical order, and RandomChooser exists to exercise
// that theorem in tests.
type Chooser interface {
	Choose(s *State, cands []Transition) int
}

// FirstChooser picks the first transition in canonical order. It is the
// deterministic default.
type FirstChooser struct{}

// Choose implements Chooser.
func (FirstChooser) Choose(*State, []Transition) int { return 0 }

// Seeded is implemented by choosers built from a known random seed. The
// engine includes the seed in its per-step debug log, so a divergence
// found under random choice (e.g. by simulate -check-engine) can be
// replayed exactly from the logs alone.
type Seeded interface {
	ChooserSeed() int64
}

// RandomChooser picks a uniformly random enabled transition from a seeded
// source, for determinism testing. Seed is informational: construct with
// NewRandomChooser to keep it in sync with the source, so per-step debug
// logs can name the seed that reproduces the run.
type RandomChooser struct {
	Rng  *rand.Rand
	Seed int64
}

// NewRandomChooser returns a RandomChooser over rand.NewSource(seed) that
// remembers the seed for diagnostics.
func NewRandomChooser(seed int64) RandomChooser {
	return RandomChooser{Rng: rand.New(rand.NewSource(seed)), Seed: seed}
}

// ChooserSeed implements Seeded.
func (c RandomChooser) ChooserSeed() int64 { return c.Seed }

// Choose implements Chooser. With no candidates it returns -1 ("no choice")
// instead of panicking; the engine only consults choosers when at least one
// transition is enabled, but direct callers may not.
func (c RandomChooser) Choose(_ *State, cands []Transition) int {
	if len(cands) == 0 {
		return -1
	}
	return c.Rng.Intn(len(cands))
}

// Listener observes fired transitions. Time is the model time at firing and
// s is the state after the transition; listeners must not mutate it.
// tr.Parts may be backed by a buffer the engine reuses on the next step:
// listeners that retain parts beyond the callback must copy them.
type Listener interface {
	OnTransition(time int64, tr *Transition, net *Network, s *State)
}

// ListenerFunc adapts a function to Listener.
type ListenerFunc func(time int64, tr *Transition, net *Network, s *State)

// OnTransition implements Listener.
func (f ListenerFunc) OnTransition(time int64, tr *Transition, net *Network, s *State) {
	f(time, tr, net, s)
}

// SyncEvent is one recorded synchronization or internal step:
// ⟨channel, participating automata, time⟩ in the paper's terms.
type SyncEvent struct {
	Time  int64
	Kind  TransKind
	Chan  int // -1 for internal transitions
	Parts []Part
}

// SyncTrace records all transitions of a run, the NSA trace of the paper.
type SyncTrace struct {
	Events []SyncEvent

	// parts is a flat arena backing Events[i].Parts: one growing allocation
	// for the whole trace instead of one slice per event. When the arena
	// grows, earlier events keep pointing into the old backing array.
	parts []Part
}

// OnTransition implements Listener.
func (t *SyncTrace) OnTransition(time int64, tr *Transition, _ *Network, _ *State) {
	start := len(t.parts)
	t.parts = append(t.parts, tr.Parts...)
	end := len(t.parts)
	t.Events = append(t.Events, SyncEvent{Time: time, Kind: tr.Kind, Chan: int(tr.Chan), Parts: t.parts[start:end:end]})
}

// Backend selects the interpretation strategy of an Engine.
type Backend uint8

const (
	// BackendCompiled executes the network's flat compiled form
	// (compile.go, compiled.go): expression bytecode, persistent
	// synchronization lists, batched same-instant deadline processing, zero
	// steady-state allocation. The default.
	BackendCompiled Backend = iota
	// BackendNaive re-enumerates every transition from scratch each step
	// through Network.EnabledTransitions / DelayBound. The oracle the
	// compiled backend is checked against.
	BackendNaive
)

func (b Backend) String() string {
	if b == BackendNaive {
		return "naive"
	}
	return "compiled"
}

// ParseBackend maps the flag spellings "compiled" and "naive" onto Backend
// values.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "compiled":
		return BackendCompiled, nil
	case "naive":
		return BackendNaive, nil
	}
	return BackendCompiled, fmt.Errorf("nsa: unknown engine backend %q (want compiled or naive)", s)
}

// Options configure a run.
type Options struct {
	// Horizon is the model time at which the run stops (exclusive of
	// further delay; actions at exactly Horizon still fire). Required.
	Horizon int64
	// Chooser resolves nondeterminism; nil means FirstChooser.
	Chooser Chooser
	// Listeners observe fired transitions.
	Listeners []Listener
	// MaxActionsPerInstant bounds action transitions at one time point to
	// detect livelocks; 0 means the default of 10 million. Livelocks are
	// normally caught much earlier by state-recurrence detection, which
	// starts probing after a fraction of this bound.
	MaxActionsPerInstant int
	// Budget bounds the run's resources; the zero value is unlimited.
	// Exhaustion stops the run cleanly with a *RunError carrying partial
	// results.
	Budget Budget
	// DiagTraceDepth is the number of trailing synchronization events kept
	// for error diagnostics (counterexample prefixes). 0 means
	// DefaultDiagTraceDepth; negative disables the recording.
	DiagTraceDepth int
	// Backend selects the interpretation strategy; the zero value is the
	// compiled runtime.
	Backend Backend
	// CheckEngine verifies the compiled runtime after every step: its
	// candidate list and delay bounds must equal a fresh naive enumeration
	// of the same state. Any divergence fails the run. Ignored under
	// BackendNaive.
	CheckEngine bool
	// Probe, when non-nil, collects hot-path counters (transitions by
	// kind, guard evaluations, enabled-cache effectiveness, deadline-heap
	// activity) during the run. A nil probe costs one predictable branch
	// per step. The probe may be shared across concurrent runs; its
	// counters are atomic.
	Probe *obs.Probe
	// Logger, when non-nil, receives structured engine events. At Debug
	// level every fired transition is logged with the chooser's candidate
	// index (and seed, for Seeded choosers), making nondeterministic runs
	// reproducible from logs alone.
	Logger *slog.Logger
	// Flight, when non-nil, records recent engine events (time advances,
	// fired edges, chooser seed and choices) into a fixed ring for
	// post-mortem dumps. A nil recorder costs one predictable branch per
	// event site; an enabled one never allocates.
	Flight *obs.FlightRecorder
}

// Result summarizes a completed run.
type Result struct {
	// Time is the model time when the run stopped.
	Time int64
	// Actions is the number of action transitions fired.
	Actions int
	// Delays is the number of delay transitions taken.
	Delays int
	// Quiescent is true when the run ended because no further action or
	// bounded delay was possible before the horizon.
	Quiescent bool
}

// Engine interprets a network deterministically from its initial state.
// The zero value is not usable; create one with NewEngine. An Engine is
// reusable: Reset restores the initial state while keeping the runtime
// caches, the budget tracker and the diagnostic ring allocated, so a
// Reset+Run cycle allocates nothing in steady state on the default
// compiled backend.
type Engine struct {
	net  *Network
	s    *State
	init *State // snapshot for Reset
	opts Options

	// Persistent per-engine scratch, reused across runs.
	crt    *compiledRuntime
	trk    Tracker
	ring   *traceRing
	cands  []Transition
	keyBuf []byte
	tr     Transition // the step's chosen transition (persistent so taking
	// its address for listeners does not force a per-step heap allocation)
}

// NewEngine returns an engine positioned at the network's initial state.
func NewEngine(net *Network, opts Options) *Engine {
	if opts.Chooser == nil {
		opts.Chooser = FirstChooser{}
	}
	if opts.MaxActionsPerInstant == 0 {
		opts.MaxActionsPerInstant = 10_000_000
	}
	s := net.InitialState()
	return &Engine{net: net, s: s, init: s.Clone(), opts: opts}
}

// State exposes the engine's current state (mutated by Run).
func (e *Engine) State() *State { return e.s }

// Reset restores the engine to the network's initial state in place,
// keeping every allocation (runtime caches, heaps, arenas, the diagnostic
// ring) for the next run.
func (e *Engine) Reset() {
	copy(e.s.Locs, e.init.Locs)
	copy(e.s.Clocks, e.init.Clocks)
	copy(e.s.Vars, e.init.Vars)
	e.s.Time = e.init.Time
	if e.crt != nil {
		e.crt.reset()
	}
	if e.ring != nil {
		e.ring.reset()
	}
}

// SetListeners replaces the engine's listener set for the next run. Most
// Options are fixed at NewEngine, but a persistent engine reused across
// Reset+Run cycles needs a fresh trace-building listener per run; this is
// that one mutable slot. Must not be called while a run is in progress.
func (e *Engine) SetListeners(ls []Listener) { e.opts.Listeners = ls }

// SetBudget replaces the engine's resource budget for the next run — the
// per-run counterpart of SetListeners for persistent engines (the budget
// tracker re-arms from Options at every RunContext). Must not be called
// while a run is in progress.
func (e *Engine) SetBudget(b Budget) { e.opts.Budget = b }

// SetFlight replaces the engine's flight recorder for the next run (nil
// disables). Like SetListeners, this is a per-run mutable slot for
// persistent engines. Must not be called while a run is in progress.
func (e *Engine) SetFlight(f *obs.FlightRecorder) { e.opts.Flight = f }

// SetLogger replaces the engine's logger for the next run (nil disables),
// so a cached engine logs with the current request's attribution. Must
// not be called while a run is in progress.
func (e *Engine) SetLogger(lg *slog.Logger) { e.opts.Logger = lg }

// Run interprets the network until the horizon, quiescence, or an error
// (time-stop deadlock, livelock, or a semantics violation). It is
// RunContext under context.Background().
func (e *Engine) Run() (Result, error) { return e.RunContext(context.Background()) }

// livelockProbe returns the per-instant action count after which the engine
// starts hashing states to detect recurrence (the precise livelock test);
// MaxActionsPerInstant stays as the hard cap for non-recurring livelocks
// (e.g. an unbounded counter growing at one instant).
func livelockProbe(maxActions int) int {
	const probe = 512
	if maxActions/2 < probe {
		return maxActions/2 + 1
	}
	return probe
}

// livelockParticipants names the automata that fired at the current instant
// (from the recent-event ring) with their current locations.
func livelockParticipants(n *Network, s *State, events []SyncEvent) []BlockedAutomaton {
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Time != s.Time {
			continue
		}
		for _, p := range ev.Parts {
			seen[p.Aut] = true
		}
	}
	var out []BlockedAutomaton
	for ai, a := range n.Automata {
		if !seen[ai] {
			continue
		}
		out = append(out, BlockedAutomaton{Automaton: a.Name, Location: a.LocationName(s.Locs[ai])})
	}
	return out
}

// RunContext interprets the network until the horizon, quiescence, an
// error, context cancellation or budget exhaustion. Cancellation and
// budget exhaustion return a *RunError carrying the partial Result (also
// returned directly) and a bounded trace prefix; progress failures return a
// *DeadlockError naming the blocked automata.
func (e *Engine) RunContext(ctx context.Context) (res Result, err error) {
	if e.opts.Horizon <= 0 {
		return Result{}, fmt.Errorf("nsa: non-positive horizon %d", e.opts.Horizon)
	}
	e.trk.init(ctx, e.opts.Budget)
	if e.ring == nil {
		e.ring = newTraceRing(e.opts.DiagTraceDepth)
	}
	ring := e.ring
	defer func() {
		// Engine boundary: expression-evaluation panics that escape the
		// per-transition recovery of firing (guard and invariant evaluation
		// while computing enabled sets and delay bounds, on either backend)
		// become structured errors instead of crashing the caller.
		// Non-RuntimeError panics are programmer errors and propagate.
		if r := recover(); r != nil {
			re, ok := r.(*expr.RuntimeError)
			if !ok {
				panic(r)
			}
			res.Time = e.s.Time
			err = &SemanticsError{Time: e.s.Time,
				Msg: fmt.Sprintf("evaluating %s: %v", e.net.LocationString(e.s), re)}
		}
	}()
	probe := e.opts.Probe
	fl := e.opts.Flight
	var lg *slog.Logger
	if e.opts.Logger != nil && e.opts.Logger.Enabled(ctx, slog.LevelDebug) {
		lg = e.opts.Logger
		if sd, ok := e.opts.Chooser.(Seeded); ok {
			lg = lg.With(slog.Int64("chooser_seed", sd.ChooserSeed()))
		}
	}
	if fl != nil {
		if sd, ok := e.opts.Chooser.(Seeded); ok {
			fl.Record(obs.FlightSeed, e.s.Time, sd.ChooserSeed(), 0, "")
		}
	}
	var crt *compiledRuntime // nil under BackendNaive
	if e.opts.Backend != BackendNaive {
		if e.crt == nil {
			e.crt = newCompiledRuntime(e.net, e.s, probe)
		}
		crt = e.crt
		defer crt.flushStats()
	}
	check := crt != nil && e.opts.CheckEngine
	// The first-transition fast path: with the deterministic default chooser
	// and no per-step observers that need the full list, the compiled
	// runtime selects the first canonical transition directly instead of
	// materializing every candidate.
	_, isFirst := e.opts.Chooser.(FirstChooser)
	useFirst := crt != nil && !check && lg == nil && isFirst
	cands := e.cands[:0]
	instant := e.s.Time
	actionsThisInstant := 0
	probeAfter := livelockProbe(e.opts.MaxActionsPerInstant)
	var instantSeen map[string]struct{}
	for {
		haveTr := false
		if useFirst {
			e.tr, haveTr = crt.first()
		} else {
			if crt != nil {
				cands = crt.enabled(cands[:0])
				if check {
					if err := e.checkEnabled(cands); err != nil {
						return res, err
					}
				}
			} else {
				cands = e.net.EnabledTransitions(e.s, cands[:0])
			}
			haveTr = len(cands) > 0
		}
		if haveTr {
			if e.s.Time != instant {
				instant = e.s.Time
				actionsThisInstant = 0
				instantSeen = nil
			}
			actionsThisInstant++
			if actionsThisInstant > e.opts.MaxActionsPerInstant {
				return res, &DeadlockError{Kind: Livelock, Time: e.s.Time,
					Msg:     fmt.Sprintf("more than %d actions at one instant", e.opts.MaxActionsPerInstant),
					Blocked: livelockParticipants(e.net, e.s, ring.snapshot()),
					Trace:   ring.snapshot()}
			}
			if actionsThisInstant >= probeAfter {
				// Recurrence probe: an action-transition cycle that revisits
				// a state at one instant can never make time progress.
				if instantSeen == nil {
					instantSeen = make(map[string]struct{})
				}
				e.keyBuf = e.s.AppendKey(e.keyBuf[:0])
				if _, dup := instantSeen[string(e.keyBuf)]; dup {
					return res, &DeadlockError{Kind: Livelock, Time: e.s.Time,
						Msg:     "state recurs without time progress",
						Blocked: livelockParticipants(e.net, e.s, ring.snapshot()),
						Trace:   ring.snapshot()}
				}
				instantSeen[string(e.keyBuf)] = struct{}{}
			}
			if rerr := e.trk.Step(e.s.Time); rerr != nil {
				rerr.Time = e.s.Time
				rerr.Trace = ring.snapshot()
				res.Time = e.s.Time
				return res, rerr
			}
			idx := 0
			if !useFirst {
				idx = e.opts.Chooser.Choose(e.s, cands)
				if idx < 0 || idx >= len(cands) {
					return res, fmt.Errorf("nsa: chooser returned %d of %d candidates", idx, len(cands))
				}
				e.tr = cands[idx]
			}
			tr := &e.tr
			fireTime := e.s.Time
			var ferr error
			if crt != nil {
				ferr = crt.fire(tr)
			} else {
				ferr = e.net.Fire(e.s, tr)
			}
			if ferr != nil {
				return res, ferr
			}
			res.Actions++
			if probe != nil {
				probe.Steps.Add(1)
				probe.Actions.Add(1)
				switch tr.Kind {
				case Internal:
					probe.SyncInternal.Add(1)
				case BinarySync:
					probe.SyncBinary.Add(1)
				default:
					probe.SyncBroadcast.Add(1)
				}
			}
			if lg != nil {
				lg.LogAttrs(ctx, slog.LevelDebug, "fire",
					slog.Int64("time", fireTime),
					slog.String("kind", tr.Kind.String()),
					slog.Int("chan", int(tr.Chan)),
					slog.Int("choice", idx),
					slog.Int("candidates", len(cands)))
			}
			if fl != nil {
				var aut int64 = -1
				if len(tr.Parts) > 0 {
					aut = int64(tr.Parts[0].Aut)
				}
				fl.Record(obs.FlightEdge, fireTime, int64(tr.Chan), aut, "")
				if !useFirst && len(cands) > 1 {
					fl.Record(obs.FlightChoice, fireTime, int64(idx), int64(len(cands)), "")
				}
			}
			ring.record(SyncEvent{Time: fireTime, Kind: tr.Kind, Chan: int(tr.Chan), Parts: tr.Parts})
			for _, l := range e.opts.Listeners {
				l.OnTransition(fireTime, tr, e.net, e.s)
			}
			continue
		}
		if e.s.Time >= e.opts.Horizon {
			res.Time = e.s.Time
			e.cands = cands
			return res, nil
		}
		var info DelayInfo
		if crt != nil {
			info = crt.delayBound()
			if check {
				if want := e.net.DelayBound(e.s); want != info {
					return res, fmt.Errorf("nsa: engine check: at time %d delay divergence: compiled %+v, naive %+v", e.s.Time, info, want)
				}
			}
		} else {
			info = e.net.DelayBound(e.s)
		}
		if info.Blocked {
			return res, &DeadlockError{Kind: Timelock, Time: e.s.Time,
				Msg:     "no transition enabled but a committed location or urgent synchronization forbids delay",
				Blocked: e.net.BlockedReport(e.s),
				Trace:   ring.snapshot()}
		}
		d := info.Step()
		if d == expr.NoBound {
			// Nothing will ever happen again: quiescent.
			res.Time = e.s.Time
			res.Quiescent = true
			e.cands = cands
			return res, nil
		}
		if d <= 0 {
			return res, &DeadlockError{Kind: Timelock, Time: e.s.Time,
				Msg:     fmt.Sprintf("invariant bounds delay at %d with no enabled transition", d),
				Blocked: e.net.BlockedReport(e.s),
				Trace:   ring.snapshot()}
		}
		if rerr := e.trk.Step(e.s.Time); rerr != nil {
			rerr.Time = e.s.Time
			rerr.Trace = ring.snapshot()
			res.Time = e.s.Time
			return res, rerr
		}
		if remaining := e.opts.Horizon - e.s.Time; d > remaining {
			d = remaining
		}
		var aerr error
		if crt != nil {
			aerr = crt.advance(d)
		} else {
			aerr = e.net.Advance(e.s, d)
		}
		if aerr != nil {
			return res, aerr
		}
		res.Delays++
		if probe != nil {
			probe.Steps.Add(1)
			probe.Delays.Add(1)
		}
		if fl != nil {
			fl.Record(obs.FlightInstant, e.s.Time, d, 0, "")
		}
		if lg != nil {
			lg.LogAttrs(ctx, slog.LevelDebug, "delay",
				slog.Int64("time", e.s.Time),
				slog.Int64("delta", d))
		}
	}
}

// checkEnabled compares the compiled runtime's candidate list against a
// fresh naive enumeration of the same state (CheckEngine mode).
func (e *Engine) checkEnabled(cands []Transition) error {
	want := e.net.EnabledTransitions(e.s, nil)
	mismatch := len(want) != len(cands)
	if !mismatch {
		for i := range want {
			if !sameTransition(&want[i], &cands[i]) {
				mismatch = true
				break
			}
		}
	}
	if !mismatch {
		return nil
	}
	format := func(ts []Transition) string {
		out := ""
		for i := range ts {
			if i > 0 {
				out += "; "
			}
			out += ts[i].String(e.net)
		}
		return "[" + out + "]"
	}
	return fmt.Errorf("nsa: engine check: at time %d enabled-set divergence:\ncompiled (%d): %s\nnaive    (%d): %s",
		e.s.Time, len(cands), format(cands), len(want), format(want))
}

// sameTransition reports structural equality of two transitions.
func sameTransition(a, b *Transition) bool {
	if a.Kind != b.Kind || a.Chan != b.Chan || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			return false
		}
	}
	return true
}

// Simulate is a convenience wrapper: build an engine, attach a SyncTrace,
// run, and return the trace alongside the result.
func Simulate(net *Network, horizon int64) (*SyncTrace, Result, error) {
	return SimulateContext(context.Background(), net, horizon, Budget{})
}

// SimulateContext is Simulate with a context and budget. On budget
// exhaustion or cancellation the returned trace holds the prefix produced
// so far and the error is a *RunError.
func SimulateContext(ctx context.Context, net *Network, horizon int64, b Budget) (*SyncTrace, Result, error) {
	tr := &SyncTrace{}
	eng := NewEngine(net, Options{Horizon: horizon, Listeners: []Listener{tr}, Budget: b})
	res, err := eng.RunContext(ctx)
	return tr, res, err
}
