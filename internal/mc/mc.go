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
	"fmt"

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
	// that the monitor reached its "bad" location. Step must not modify ms,
	// which other successors share, but may return it unchanged. tr and s
	// are valid only during the call: the explorer recycles search states.
	Step(ms []int64, time int64, tr *nsa.Transition, net *nsa.Network, s *nsa.State) (next []int64, bad string)
}

// Options configure an exploration.
type Options struct {
	// Horizon bounds model time, like the simulator's horizon. Required.
	Horizon int64
	// BadState, when non-nil, is evaluated on every reachable state; a
	// non-empty string is a violation witness. s is valid only during the
	// call: the explorer recycles search states, so a predicate that keeps
	// anything of s must copy it.
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

// node is a product state: the network state and one vector per monitor.
type node struct {
	s  *nsa.State
	ms [][]int64
}

// frame is one level of the lazy depth-first search: the expanded product
// state, and the candidate transitions (with their Parts) and the index of
// the next one to try. Successors are generated one at a time, so memory is
// bounded by the search depth plus the visited set — not the frontier.
type frame struct {
	node
	cands []nsa.Transition
	parts []nsa.Part
	next  int
}

// Explore walks all maximal-progress runs of net up to the horizon.
// It returns an error for malformed models (time-stop deadlocks, semantics
// violations), mirroring the simulator. The visited set stores a 128-bit
// fingerprint of each product state (network state × monitor states),
// hashed word by word with fixed constants, so memory stays proportional to
// the number of distinct states, not their size; the probability that two
// of n distinct states share a fingerprint is about n²/2¹²⁹. Search states
// are recycled: a successor that is a duplicate or a leaf, and the state of
// a finished frame, are overwritten by the next successor, and finished
// frames keep their candidate buffers for the next expansion, so the states
// and buffers the search allocates follow its depth, not the number of
// transitions it fires.
// It is ExploreContext under context.Background().
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
	visited := make(map[fingerprint]struct{})
	// enum computes enabled transitions through the network's compiled form
	// (pre-classified edges, the engine's guard tiers) into the buffers of
	// the frame that will expand them.
	enum := nsa.NewEnumerator(net)
	enum.Probe = opts.Probe

	// free holds product states whose contents are dead: duplicates,
	// leaves and the states of finished frames. stack[depth:] holds
	// finished frames, reused with their buffers by the next push.
	var free []node
	stack := make([]*frame, 0, 64)
	depth := 0

	// successor returns a product state holding a copy of src's network
	// state; its monitor vectors are for the caller to fill.
	successor := func(src node) node {
		if n := len(free); n > 0 {
			nd := free[n-1]
			free = free[:n-1]
			copy(nd.s.Locs, src.s.Locs)
			copy(nd.s.Clocks, src.s.Clocks)
			copy(nd.s.Vars, src.s.Vars)
			nd.s.Time = src.s.Time
			return nd
		}
		return node{s: src.s.Clone(), ms: make([][]int64, len(src.ms))}
	}

	// expand registers a newly reached product state and pushes its frame.
	// A state already visited, or one that only delays into a visited state
	// or a terminal leaf, is recycled instead.
	expand := func(nd node) error {
		s := nd.s
		for {
			if !opts.NoDedup {
				n := len(visited)
				visited[fingerprintOf(s, nd.ms)] = struct{}{}
				if len(visited) == n {
					free = append(free, nd)
					return nil
				}
			}
			res.States++
			if opts.BadState != nil {
				if bad := opts.BadState(s); bad != "" && res.Bad == "" {
					res.Bad = bad
				}
			}
			if depth == len(stack) {
				stack = append(stack, &frame{})
			}
			f := stack[depth]
			f.cands, f.parts = enum.Enabled(s, f.cands[:0], f.parts[:0])
			if len(f.cands) > 0 {
				f.node, f.next = nd, 0
				depth++
				return nil
			}
			// No actions: delay in place until an action becomes enabled,
			// or terminate, exactly like the simulator.
			curTime = s.Time
			if s.Time >= opts.Horizon {
				res.Leaves++
				free = append(free, nd)
				return nil
			}
			info := net.DelayBound(s)
			if info.Blocked {
				return &nsa.DeadlockError{Kind: nsa.Timelock, Time: s.Time,
					Msg:     "exploration reached a state where a committed location or urgent synchronization forbids delay with no transition enabled",
					Blocked: net.BlockedReport(s)}
			}
			d := info.Step()
			if d == expr.NoBound {
				res.Leaves++ // quiescent
				free = append(free, nd)
				return nil
			}
			if d <= 0 {
				return &nsa.DeadlockError{Kind: nsa.Timelock, Time: s.Time,
					Msg:     fmt.Sprintf("exploration reached a state where an invariant bounds delay at %d with no enabled transition", d),
					Blocked: net.BlockedReport(s)}
			}
			if rerr := tracker.Step(s.Time); rerr != nil {
				rerr.States = res.States
				res.Complete = false
				return rerr
			}
			if remaining := opts.Horizon - s.Time; d > remaining {
				d = remaining
			}
			if err := net.Advance(s, d); err != nil {
				return err
			}
			if p := opts.Probe; p != nil {
				p.Steps.Add(1)
				p.Delays.Add(1)
			}
		}
	}

	root := node{s: net.InitialState(), ms: make([][]int64, len(opts.Monitors))}
	for i, m := range opts.Monitors {
		root.ms[i] = m.Init()
	}
	if err := expand(root); err != nil {
		return res, err
	}

	for depth > 0 {
		top := stack[depth-1]
		curTime = top.s.Time
		if res.States > maxStates {
			res.Complete = false
			rerr := &nsa.RunError{Reason: nsa.StopStates, Time: top.s.Time,
				Steps: tracker.Steps(), States: res.States}
			return res, rerr
		}
		if top.next >= len(top.cands) {
			free = append(free, top.node)
			depth--
			continue
		}
		if rerr := tracker.Step(top.s.Time); rerr != nil {
			rerr.States = res.States
			res.Complete = false
			return res, rerr
		}
		tr := &top.cands[top.next]
		top.next++

		succ := successor(top.node)
		if err := net.Fire(succ.s, tr); err != nil {
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
		for mi, m := range opts.Monitors {
			next, bad := m.Step(top.ms[mi], top.s.Time, tr, net, succ.s)
			succ.ms[mi] = next
			if bad != "" && res.Bad == "" {
				res.Bad = fmt.Sprintf("%s: %s", m.Name(), bad)
			}
		}
		if err := expand(succ); err != nil {
			return res, err
		}
	}
	res.Complete = true
	return res, nil
}
