// Package mc is the Model Checking baseline the paper compares against
// (Table 1): an exhaustive exploration of all runs of an NSA. It shares the
// successor computation with the simulator in package nsa — every enabled
// action transition is branched on, with visited-state de-duplication —
// so the measured difference against the single-run interpretation is
// purely the cost of considering all interleavings.
//
// Properties are checked two ways: state predicates (BadState) evaluated on
// every reachable state, and Monitors — deterministic observer automata in
// the sense of §3 whose state is carried in the product with the network
// state, so "bad location reachable in some run" is decided exactly.
package mc

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
)

// Monitor is a deterministic observer over synchronization transitions.
// Its state is an int64 vector included in the exploration's product state.
type Monitor interface {
	// Name identifies the monitor in witnesses.
	Name() string
	// Init returns the initial monitor state.
	Init() []int64
	// Step consumes one fired transition (with the post-state s) and
	// returns the successor monitor state; a non-empty bad string reports
	// that the monitor reached its "bad" location.
	Step(ms []int64, time int64, tr *nsa.Transition, net *nsa.Network, s *nsa.State) (next []int64, bad string)
}

// Options configure an exploration.
type Options struct {
	// Horizon bounds model time, like the simulator's horizon. Required.
	Horizon int64
	// BadState, when non-nil, is evaluated on every reachable state; a
	// non-empty string is a violation witness.
	BadState func(s *nsa.State) string
	// Monitors observe every action transition.
	Monitors []Monitor
	// MaxStates aborts the exploration when exceeded (0 = 50 million).
	// Exhaustion returns a *nsa.RunError carrying the partial Result.
	// Budget.MaxStates, when set, takes precedence.
	MaxStates int
	// NoDedup disables visited-state de-duplication, turning the search
	// into a full run-tree walk. Only sensible for tiny models (used by
	// trace-equivalence tests).
	NoDedup bool
	// Budget bounds the exploration's resources (states, transitions, wall
	// time, memory); the zero value leaves only the MaxStates default.
	Budget nsa.Budget
	// Probe, when non-nil, collects hot-path counters (transitions fired
	// by kind, delays, enabled-set queries and guard evaluations through
	// the shared Enumerator). Nil disables probing at one branch per step.
	Probe *obs.Probe
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct product states expanded.
	States int
	// Transitions is the number of action transitions fired.
	Transitions int
	// Leaves is the number of terminal states reached (horizon or
	// quiescence).
	Leaves int
	// Bad is the first violation witness found, "" if none.
	Bad string
	// Complete is false when MaxStates aborted the search.
	Complete bool
}

// frame is one level of the lazy depth-first search: the expanded state,
// its monitor states, and the candidate transitions with the index of the
// next one to try. Successors are generated one at a time, so memory is
// bounded by the search depth plus the visited set — not the frontier.
type frame struct {
	s     *nsa.State
	ms    [][]int64
	cands []nsa.Transition
	next  int
}

// Explore walks all maximal-progress runs of net up to the horizon.
// It returns an error for malformed models (time-stop deadlocks, semantics
// violations), mirroring the simulator. The visited set stores 128-bit
// FNV-1a hashes of the product state (network state × monitor states), so
// memory stays proportional to the number of distinct states, not their
// size. It is ExploreContext under context.Background().
func Explore(net *nsa.Network, opts Options) (Result, error) {
	return ExploreContext(context.Background(), net, opts)
}

// ExploreContext is Explore with cancellation and resource budgets. When
// the state cap, a Budget dimension or the context stops the search, the
// partial Result (Complete == false) is returned together with a typed
// *nsa.RunError reporting states explored, transitions fired and the model
// time of the state being expanded. Timelocks found during exploration are
// reported as *nsa.DeadlockError naming the blocked automata.
func ExploreContext(ctx context.Context, net *nsa.Network, opts Options) (res Result, err error) {
	if opts.Horizon <= 0 {
		return Result{}, fmt.Errorf("mc: non-positive horizon %d", opts.Horizon)
	}
	maxStates := opts.MaxStates
	if opts.Budget.MaxStates > 0 {
		maxStates = opts.Budget.MaxStates
	}
	if maxStates == 0 {
		maxStates = 50_000_000
	}
	tracker := opts.Budget.Tracker(ctx)
	var curTime int64 // model time of the state being expanded, for reports
	defer func() {
		// Explorer boundary: expression-evaluation panics escaping Fire's
		// per-transition recovery become structured errors, mirroring the
		// engine. Non-RuntimeError panics are programmer errors.
		if r := recover(); r != nil {
			re, ok := r.(*expr.RuntimeError)
			if !ok {
				panic(r)
			}
			res.Complete = false
			err = &nsa.SemanticsError{Time: curTime, Expr: re.Expr,
				Msg: fmt.Sprintf("during exploration: %v", re)}
		}
	}()
	visited := make(map[[16]byte]struct{})
	var keyBuf []byte
	hasher := fnv.New128a()
	// enum computes enabled transitions through the network's compiled form
	// (pre-classified edges, the engine's guard tiers); each call returns
	// freshly allocated transitions, which DFS frames retain.
	enum := nsa.NewEnumerator(net)
	enum.Probe = opts.Probe

	seen := func(s *nsa.State, ms [][]int64) bool {
		keyBuf = s.AppendKey(keyBuf[:0])
		for _, m := range ms {
			for _, v := range m {
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], uint64(v))
				keyBuf = append(keyBuf, tmp[:]...)
			}
		}
		hasher.Reset()
		hasher.Write(keyBuf)
		var k [16]byte
		hasher.Sum(k[:0])
		if _, ok := visited[k]; ok {
			return true
		}
		visited[k] = struct{}{}
		return false
	}

	// expand registers a newly reached product state and returns its frame,
	// or nil when it was already visited (or is a terminal leaf).
	expand := func(s *nsa.State, ms [][]int64) (*frame, error) {
		if !opts.NoDedup && seen(s, ms) {
			return nil, nil
		}
		res.States++
		if opts.BadState != nil {
			if bad := opts.BadState(s); bad != "" && res.Bad == "" {
				res.Bad = bad
			}
		}
		cands := enum.Enabled(s)
		if len(cands) > 0 {
			return &frame{s: s, ms: ms, cands: cands}, nil
		}
		// No actions: delay in place until an action becomes enabled, or
		// terminate, exactly like the simulator.
		for {
			curTime = s.Time
			if s.Time >= opts.Horizon {
				res.Leaves++
				return nil, nil
			}
			info := net.DelayBound(s)
			if info.Blocked {
				return nil, &nsa.DeadlockError{Kind: nsa.Timelock, Time: s.Time,
					Msg:     "exploration reached a state where a committed location or urgent synchronization forbids delay with no transition enabled",
					Blocked: net.BlockedReport(s)}
			}
			d := info.Step()
			if d == expr.NoBound {
				res.Leaves++ // quiescent
				return nil, nil
			}
			if d <= 0 {
				return nil, &nsa.DeadlockError{Kind: nsa.Timelock, Time: s.Time,
					Msg:     fmt.Sprintf("exploration reached a state where an invariant bounds delay at %d with no enabled transition", d),
					Blocked: net.BlockedReport(s)}
			}
			if rerr := tracker.Step(s.Time); rerr != nil {
				rerr.States = res.States
				res.Complete = false
				return nil, rerr
			}
			if remaining := opts.Horizon - s.Time; d > remaining {
				d = remaining
			}
			if err := net.Advance(s, d); err != nil {
				return nil, err
			}
			if p := opts.Probe; p != nil {
				p.Steps.Add(1)
				p.Delays.Add(1)
			}
			if !opts.NoDedup && seen(s, ms) {
				return nil, nil
			}
			res.States++
			if opts.BadState != nil {
				if bad := opts.BadState(s); bad != "" && res.Bad == "" {
					res.Bad = bad
				}
			}
			cands = enum.Enabled(s)
			if len(cands) > 0 {
				return &frame{s: s, ms: ms, cands: cands}, nil
			}
		}
	}

	initMs := make([][]int64, len(opts.Monitors))
	for i, m := range opts.Monitors {
		initMs[i] = m.Init()
	}
	root, err := expand(net.InitialState(), initMs)
	if err != nil {
		return res, err
	}
	stack := make([]*frame, 0, 1024)
	if root != nil {
		stack = append(stack, root)
	}

	for len(stack) > 0 {
		top := stack[len(stack)-1]
		curTime = top.s.Time
		if res.States > maxStates {
			res.Complete = false
			rerr := &nsa.RunError{Reason: nsa.StopStates, Time: top.s.Time,
				Steps: tracker.Steps(), States: res.States}
			return res, rerr
		}
		if top.next >= len(top.cands) {
			stack = stack[:len(stack)-1]
			continue
		}
		if rerr := tracker.Step(top.s.Time); rerr != nil {
			rerr.States = res.States
			res.Complete = false
			return res, rerr
		}
		tr := top.cands[top.next]
		top.next++

		succ := top.s.Clone()
		fireTime := succ.Time
		if err := net.Fire(succ, &tr); err != nil {
			return res, err
		}
		res.Transitions++
		if p := opts.Probe; p != nil {
			p.Steps.Add(1)
			p.Actions.Add(1)
			switch tr.Kind {
			case nsa.Internal:
				p.SyncInternal.Add(1)
			case nsa.BinarySync:
				p.SyncBinary.Add(1)
			default:
				p.SyncBroadcast.Add(1)
			}
		}
		ms := top.ms
		if len(opts.Monitors) > 0 {
			ms = make([][]int64, len(opts.Monitors))
			for mi, m := range opts.Monitors {
				next, bad := m.Step(top.ms[mi], fireTime, &tr, net, succ)
				ms[mi] = next
				if bad != "" && res.Bad == "" {
					res.Bad = fmt.Sprintf("%s: %s", m.Name(), bad)
				}
			}
		}
		f, err := expand(succ, ms)
		if err != nil {
			return res, err
		}
		if f != nil {
			stack = append(stack, f)
		}
	}
	res.Complete = true
	return res, nil
}
