package model

import (
	"fmt"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/sa"

	"stopwatchsim/internal/config"
)

// policyLogic abstracts the dispatch/preemption decisions that differ
// between the TS implementations. Decisions read the shared readiness,
// priority, deadline and cur variables plus the per-task response-time
// clocks (the aliveness test compares rt against the relative deadline);
// the read footprints are declared so the engine's compiled runtime
// re-evaluates scheduler guards only when one of those inputs changes.
type policyLogic struct {
	// pick returns the task index to dispatch, or -1 when none is ready.
	pick func(env expr.Env) int
	// preempts reports whether some ready task should preempt the current
	// one; nil for non-preemptive policies.
	preempts func(env expr.Env) bool
	// pickReads and preemptsReads are the read footprints of the two
	// decisions (preempts additionally reads cur).
	pickReads     sa.Deps
	preemptsReads sa.Deps
}

// policyFor builds the dispatch/preemption logic for non-RR policies;
// round-robin has its own scheduler shape (see buildSchedulerRR).
func (m *Model) policyFor(pi int) policyLogic {
	p := &m.Sys.Partitions[pi]
	k := len(p.Tasks)
	ready := make([]int, k)
	prio := make([]int, k)
	dl := make([]int, k)
	rt := make([]int, k)
	relDeadline := make([]int64, k)
	for ti := 0; ti < k; ti++ {
		tv := m.tasks[config.TaskRef{Part: pi, Task: ti}]
		ready[ti] = int(tv.isReady)
		prio[ti] = int(tv.prio)
		dl[ti] = int(tv.deadline)
		rt[ti] = int(tv.rt)
		relDeadline[ti] = p.Tasks[ti].Deadline
	}
	cur := int(m.parts[pi].cur)

	// alive: the job is ready and its deadline has not been reached — a job
	// at its deadline "can not be executed anymore" (§1), so the scheduler
	// never dispatches it regardless of how the simultaneous kill and
	// dispatch transitions interleave.
	alive := func(env expr.Env, ti int) bool {
		return env.Var(ready[ti]) == 1 && env.Clock(rt[ti]) < relDeadline[ti]
	}

	// better reports whether ready task a beats ready task b under the
	// policy, with the task index as the deterministic tie-breaker.
	var better func(env expr.Env, a, b int) bool
	switch p.Policy {
	case config.FPPS, config.FPNPS:
		better = func(env expr.Env, a, b int) bool {
			pa, pb := env.Var(prio[a]), env.Var(prio[b])
			return pa > pb || (pa == pb && a < b)
		}
	case config.EDF:
		better = func(env expr.Env, a, b int) bool {
			da, db := env.Var(dl[a]), env.Var(dl[b])
			return da < db || (da == db && a < b)
		}
	}

	pick := func(env expr.Env) int {
		best := -1
		for ti := 0; ti < k; ti++ {
			if !alive(env, ti) {
				continue
			}
			if best < 0 || better(env, ti, best) {
				best = ti
			}
		}
		return best
	}

	logic := policyLogic{pick: pick}
	for ti := 0; ti < k; ti++ {
		logic.pickReads.Vars = append(logic.pickReads.Vars,
			sa.VarID(ready[ti]), sa.VarID(prio[ti]), sa.VarID(dl[ti]))
		logic.pickReads.Clocks = append(logic.pickReads.Clocks, sa.ClockID(rt[ti]))
	}
	logic.preemptsReads = sa.Deps{
		Vars:   append(append([]sa.VarID(nil), logic.pickReads.Vars...), sa.VarID(cur)),
		Clocks: logic.pickReads.Clocks,
	}
	if p.Policy == config.FPPS || p.Policy == config.EDF {
		// Strict preemption test: the challenger must beat the current job
		// without the tie-breaker (equal priority/deadline does not preempt).
		logic.preempts = func(env expr.Env) bool {
			c := int(env.Var(cur))
			if c < 0 {
				return false
			}
			for ti := 0; ti < k; ti++ {
				if ti == c || !alive(env, ti) {
					continue
				}
				switch p.Policy {
				case config.FPPS:
					if env.Var(prio[ti]) > env.Var(prio[c]) {
						return true
					}
				case config.EDF:
					if env.Var(dl[ti]) < env.Var(dl[c]) {
						return true
					}
				}
			}
			return false
		}
	}
	return logic
}

// buildScheduler constructs the TS automaton for partition pi (the paper's
// base type TS), implementing the partition's scheduling policy.
//
// Structure (PreemptCheck exists only for preemptive policies):
//
//	Asleep ─wakeup?→ Dispatch* ─exec_k!→ Running ─ready?→ PreemptCheck* ─preempt_k!→ Dispatch*
//	   ▲                │(none)              │finished?(cur)            │(no better)
//	   └──sleep?────── Idle                  ▼                          ▼
//	                                      Dispatch*                  Running
//	Running ─sleep?→ PreSleep* ─preempt_cur!→ Asleep
//
// (* = committed). Every state accepts finished? so deadline kills are never
// blocked, and Asleep accepts ready? so releases outside windows are heard.
func (m *Model) buildScheduler(nb *nsa.Builder, pi int) (*sa.Automaton, error) {
	if m.Sys.Partitions[pi].Policy == config.RR {
		return m.buildSchedulerRR(nb, pi)
	}
	p := &m.Sys.Partitions[pi]
	pv := &m.parts[pi]
	k := len(p.Tasks)
	logic := m.policyFor(pi)
	curID := int(pv.cur)
	lastFinID := int(pv.lastFin)

	b := sa.NewBuilder(fmt.Sprintf("TS_%s_%s", p.Policy, p.Name))
	asleep := b.Loc("Asleep")
	dispatch := b.Loc("Dispatch", sa.Committed())
	idle := b.Loc("Idle")
	running := b.Loc("Running")
	preSleep := b.Loc("PreSleep", sa.Committed())
	// Relay locations for finished?: the guard of a synchronizing edge is
	// evaluated in the pre-state and cannot see the task's last_finished
	// update on the same transition, so the scheduler first takes the sync
	// unconditionally into a committed relay and routes from there.
	runningFin := b.Loc("RunningFin", sa.Committed())
	preSleepFin := b.Loc("PreSleepFin", sa.Committed())
	var preemptCheck, preemptCheckFin sa.LocID
	preemptive := logic.preempts != nil
	if preemptive {
		preemptCheck = b.Loc("PreemptCheck", sa.Committed())
		preemptCheckFin = b.Loc("PreemptCheckFin", sa.Committed())
	}
	b.Init(asleep)

	finDeps := &sa.Deps{Vars: []sa.VarID{sa.VarID(lastFinID), sa.VarID(curID)}}
	curDeps := &sa.Deps{Vars: []sa.VarID{sa.VarID(curID)}}
	gFinCur := &sa.GuardFunc{Desc: fmt.Sprintf("last_finished_%d == cur_%d", pi, pi),
		F:     func(env expr.Env) bool { return env.Var(lastFinID) == env.Var(curID) },
		Reads: finDeps}
	gFinOther := &sa.GuardFunc{Desc: fmt.Sprintf("last_finished_%d != cur_%d", pi, pi),
		F:     func(env expr.Env) bool { return env.Var(lastFinID) != env.Var(curID) },
		Reads: finDeps}
	clearCur := &sa.UpdateFunc{Desc: fmt.Sprintf("cur_%d := -1", pi),
		F:      func(env expr.MutableEnv) { env.SetVar(curID, -1) },
		Writes: curDeps}

	// Asleep: hear releases and kills, wake on the window start.
	b.RecvEdge(asleep, asleep, nil, pv.readyCh, nil)
	b.RecvEdge(asleep, asleep, nil, pv.finishedCh, nil)
	b.RecvEdge(asleep, dispatch, nil, pv.wakeupCh, nil)

	// Dispatch: pick the best ready task, or idle; a window may end at the
	// very same instant.
	b.RecvEdge(dispatch, asleep, nil, pv.sleepCh, nil)
	for ti := 0; ti < k; ti++ {
		ti := ti
		g := &sa.GuardFunc{Desc: fmt.Sprintf("pick_%d == %d", pi, ti),
			F:     func(env expr.Env) bool { return logic.pick(env) == ti },
			Reads: &logic.pickReads}
		u := &sa.UpdateFunc{Desc: fmt.Sprintf("cur_%d := %d", pi, ti),
			F:      func(env expr.MutableEnv) { env.SetVar(curID, int64(ti)) },
			Writes: curDeps}
		b.SendEdge(dispatch, running, g, m.tasks[config.TaskRef{Part: pi, Task: ti}].execCh, u)
	}
	b.Edge(dispatch, idle,
		&sa.GuardFunc{Desc: fmt.Sprintf("pick_%d == -1", pi),
			F:     func(env expr.Env) bool { return logic.pick(env) < 0 },
			Reads: &logic.pickReads},
		sa.None, nil)

	// Idle: react to releases (and, defensively, kills), sleep on demand.
	b.RecvEdge(idle, dispatch, nil, pv.readyCh, nil)
	b.RecvEdge(idle, dispatch, nil, pv.finishedCh, nil)
	b.RecvEdge(idle, asleep, nil, pv.sleepCh, nil)

	// Running.
	b.RecvEdge(running, runningFin, nil, pv.finishedCh, nil)
	if preemptive {
		b.RecvEdge(running, preemptCheck, nil, pv.readyCh, nil)
	} else {
		b.RecvEdge(running, running, nil, pv.readyCh, nil)
	}
	b.RecvEdge(running, preSleep, nil, pv.sleepCh, nil)

	// RunningFin: the current job finished (re-dispatch) or another queued
	// job was killed at its deadline (keep running).
	b.Edge(runningFin, dispatch, gFinCur, sa.None, clearCur)
	b.Edge(runningFin, running, gFinOther, sa.None, nil)

	if preemptive {
		// PreemptCheck: completion beats preemption (the task refuses
		// preempt? at x == C, and finished? is accepted here), then the
		// preemption proper, then back to Running.
		b.RecvEdge(preemptCheck, preemptCheckFin, nil, pv.finishedCh, nil)
		for ti := 0; ti < k; ti++ {
			ti := ti
			g := &sa.GuardFunc{Desc: fmt.Sprintf("cur_%d == %d && preempts_%d", pi, ti, pi),
				F: func(env expr.Env) bool {
					return env.Var(curID) == int64(ti) && logic.preempts(env)
				},
				Reads: &logic.preemptsReads}
			b.SendEdge(preemptCheck, dispatch, g,
				m.tasks[config.TaskRef{Part: pi, Task: ti}].preemptCh, clearCur)
		}
		b.Edge(preemptCheck, running,
			&sa.GuardFunc{Desc: fmt.Sprintf("!preempts_%d", pi),
				F:     func(env expr.Env) bool { return !logic.preempts(env) },
				Reads: &logic.preemptsReads},
			sa.None, nil)
		b.Edge(preemptCheckFin, dispatch, gFinCur, sa.None, clearCur)
		b.Edge(preemptCheckFin, preemptCheck, gFinOther, sa.None, nil)
	}

	// PreSleep: stop the current job before sleeping; it may complete or be
	// killed at this same instant instead.
	b.RecvEdge(preSleep, preSleepFin, nil, pv.finishedCh, nil)
	for ti := 0; ti < k; ti++ {
		ti := ti
		g := &sa.GuardFunc{Desc: fmt.Sprintf("cur_%d == %d", pi, ti),
			F:     func(env expr.Env) bool { return env.Var(curID) == int64(ti) },
			Reads: curDeps}
		b.SendEdge(preSleep, asleep, g,
			m.tasks[config.TaskRef{Part: pi, Task: ti}].preemptCh, clearCur)
	}
	b.Edge(preSleepFin, asleep, gFinCur, sa.None, clearCur)
	b.Edge(preSleepFin, preSleep, gFinOther, sa.None, nil)

	return b.Build()
}
