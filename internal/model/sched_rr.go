package model

import (
	"fmt"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/sa"
)

// buildSchedulerRR constructs a round-robin TS implementation — one of the
// "more task scheduler models" the paper's future-work section plans. The
// quantum clock q is itself a stopwatch: it runs only while a job executes
// (the Running location), so window switches do not consume quantum.
//
//	Asleep ─wakeup?→ Dispatch* ─exec_k! (next ready after rr_last)→ Running {q ≤ Q}
//	Running ─(q==Q)→ Rotate* ─preempt_cur!→ Dispatch*            (rotation)
//	Running ─finished?→ RunningFin* ─(cur)→ Dispatch*            (completion/kill)
//	Running ─sleep?→ PreSleep* ─preempt_cur!→ Asleep             (window end)
func (m *Model) buildSchedulerRR(nb *nsa.Builder, pi int) (*sa.Automaton, error) {
	p := &m.Sys.Partitions[pi]
	pv := &m.parts[pi]
	k := len(p.Tasks)
	quantum := p.Quantum

	rrLast := nb.Var(fmt.Sprintf("rr_last_%d", pi), -1)
	rrLastID := int(rrLast)
	qName := fmt.Sprintf("q_%d", pi)
	q := nb.Clock(qName)

	ready := make([]int, k)
	rt := make([]int, k)
	relDeadline := make([]int64, k)
	for ti := 0; ti < k; ti++ {
		tv := m.tasks[config.TaskRef{Part: pi, Task: ti}]
		ready[ti] = int(tv.isReady)
		rt[ti] = int(tv.rt)
		relDeadline[ti] = p.Tasks[ti].Deadline
	}
	// pick scans cyclically from the task after the last dispatched one,
	// skipping jobs whose deadline has been reached (see policyFor).
	pick := func(env expr.Env) int {
		last := int(env.Var(rrLastID))
		for i := 1; i <= k; i++ {
			ti := (last + i + k) % k
			if env.Var(ready[ti]) == 1 && env.Clock(rt[ti]) < relDeadline[ti] {
				return ti
			}
		}
		return -1
	}
	pickReads := &sa.Deps{Vars: []sa.VarID{sa.VarID(rrLastID)}}
	for ti := 0; ti < k; ti++ {
		pickReads.Vars = append(pickReads.Vars, sa.VarID(ready[ti]))
		pickReads.Clocks = append(pickReads.Clocks, sa.ClockID(rt[ti]))
	}

	b := sa.NewBuilder(fmt.Sprintf("TS_RR_%s", p.Name))
	b.OwnClock(q)

	invQ := exprInv(nb, fmt.Sprintf("%s <= %d", qName, quantum))
	stopQ := sa.Stops(q)
	asleep := b.Loc("Asleep", stopQ)
	dispatch := b.Loc("Dispatch", sa.Committed(), stopQ)
	idle := b.Loc("Idle", stopQ)
	running := b.Loc("Running", sa.WithInvariant(invQ)) // q runs only here
	runningFin := b.Loc("RunningFin", sa.Committed(), stopQ)
	rotate := b.Loc("Rotate", sa.Committed(), stopQ)
	rotateFin := b.Loc("RotateFin", sa.Committed(), stopQ)
	preSleep := b.Loc("PreSleep", sa.Committed(), stopQ)
	preSleepFin := b.Loc("PreSleepFin", sa.Committed(), stopQ)
	b.Init(asleep)

	gFinCur := exprGuard(nb, fmt.Sprintf("last_finished_%d == cur_%d", pi, pi))
	gFinOther := exprGuard(nb, fmt.Sprintf("last_finished_%d != cur_%d", pi, pi))
	clearCur := exprUpdate(nb, fmt.Sprintf("cur_%d := -1", pi))

	// Asleep.
	b.RecvEdge(asleep, asleep, nil, pv.readyCh, nil)
	b.RecvEdge(asleep, asleep, nil, pv.finishedCh, nil)
	b.RecvEdge(asleep, dispatch, nil, pv.wakeupCh, nil)

	// Dispatch: next ready task in rotation order, quantum reset.
	b.RecvEdge(dispatch, asleep, nil, pv.sleepCh, nil)
	for ti := 0; ti < k; ti++ {
		ti := ti
		g := &sa.GuardFunc{Desc: fmt.Sprintf("rr_pick_%d == %d", pi, ti),
			F:     func(env expr.Env) bool { return pick(env) == ti },
			Reads: pickReads}
		u := exprUpdate(nb, fmt.Sprintf("cur_%d := %d, rr_last_%d := %d, %s := 0", pi, ti, pi, ti, qName))
		b.SendEdge(dispatch, running, g, m.tasks[config.TaskRef{Part: pi, Task: ti}].execCh, u)
	}
	b.Edge(dispatch, idle,
		&sa.GuardFunc{Desc: fmt.Sprintf("rr_pick_%d == -1", pi),
			F:     func(env expr.Env) bool { return pick(env) < 0 },
			Reads: pickReads},
		sa.None, nil)

	// Idle.
	b.RecvEdge(idle, dispatch, nil, pv.readyCh, nil)
	b.RecvEdge(idle, dispatch, nil, pv.finishedCh, nil)
	b.RecvEdge(idle, asleep, nil, pv.sleepCh, nil)

	// Running: completion/kill, quantum expiry, new arrivals wait, sleep.
	b.RecvEdge(running, runningFin, nil, pv.finishedCh, nil)
	b.Edge(running, rotate, exprGuard(nb, fmt.Sprintf("%s == %d", qName, quantum)), sa.None, nil)
	b.RecvEdge(running, running, nil, pv.readyCh, nil)
	b.RecvEdge(running, preSleep, nil, pv.sleepCh, nil)

	b.Edge(runningFin, dispatch, gFinCur, sa.None, clearCur)
	b.Edge(runningFin, running, gFinOther, sa.None, nil)

	// Rotate: stop the current job (it may complete or be killed at this
	// same instant instead) and re-dispatch.
	b.RecvEdge(rotate, rotateFin, nil, pv.finishedCh, nil)
	for ti := 0; ti < k; ti++ {
		g := exprGuard(nb, fmt.Sprintf("cur_%d == %d", pi, ti))
		b.SendEdge(rotate, dispatch, g,
			m.tasks[config.TaskRef{Part: pi, Task: ti}].preemptCh, clearCur)
	}
	b.Edge(rotateFin, dispatch, gFinCur, sa.None, clearCur)
	b.Edge(rotateFin, rotate, gFinOther, sa.None, nil)

	// PreSleep, as in the fixed-priority scheduler.
	b.RecvEdge(preSleep, preSleepFin, nil, pv.finishedCh, nil)
	for ti := 0; ti < k; ti++ {
		g := exprGuard(nb, fmt.Sprintf("cur_%d == %d", pi, ti))
		b.SendEdge(preSleep, asleep, g,
			m.tasks[config.TaskRef{Part: pi, Task: ti}].preemptCh, clearCur)
	}
	b.Edge(preSleepFin, asleep, gFinCur, sa.None, clearCur)
	b.Edge(preSleepFin, preSleep, gFinOther, sa.None, nil)

	return b.Build()
}
