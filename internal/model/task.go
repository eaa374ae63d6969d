package model

import (
	"fmt"
	"strings"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/sa"
)

// exprGuard compiles an internally generated guard source. The sources are
// produced from validated configurations, so failures are programming errors.
func exprGuard(nb *nsa.Builder, src string) sa.Guard {
	return sa.NewExprGuard(expr.MustParseResolve(src, nb.Scope(), expr.TypeBool))
}

func exprUpdate(nb *nsa.Builder, src string) sa.Update {
	return &sa.ExprUpdate{Stmts: expr.MustParseResolveUpdate(src, nb.Scope())}
}

func exprInv(nb *nsa.Builder, src string) sa.Invariant {
	inv, err := expr.ParseInvariant(src, nb.Scope())
	if err != nil {
		panic(err)
	}
	return inv
}

// buildTask constructs the T automaton for one task (the paper's base type
// T): release every P ticks, optional wait for data from incoming virtual
// links, ready announcement to the scheduler, preemptible execution measured
// by the stopwatch x (running only in the Executing location), completion at
// x == C with a data broadcast, and a deadline kill at rt == D.
//
// The job lifecycle:
//
//	Release* ─(data ready) ready!→ WaitExec ─exec?→ Executing ─(x==C) finished!→ SendData* ─send!→ Done
//	   │                              │  ▲               │(preempt?, x<C)
//	   └─(else)→ WaitData ─ready!─────┘  └───────────────┘
//	WaitData/WaitExec/Executing ─(rt==D) kill→ Done;  Done ─(rt==P)→ Release* or Finished
//
// (* = committed location).
func (m *Model) buildTask(nb *nsa.Builder, ref config.TaskRef) (*sa.Automaton, error) {
	sys := m.Sys
	p := &sys.Partitions[ref.Part]
	task := &p.Tasks[ref.Task]
	tv := m.tasks[ref]
	pv := &m.parts[ref.Part]

	P := task.Period
	D := task.Deadline
	C := sys.WCETOn(ref)
	nJobs := m.Horizon / P
	incoming := sys.IncomingMessages(ref)
	pi, ti := ref.Part, ref.Task
	name := func(base string) string { return fmt.Sprintf("%s_%d_%d", base, pi, ti) }

	if C > D {
		// Validated configurations allow this (the job can simply never
		// finish); the automaton handles it via the deadline kill.
		_ = C
	}

	b := sa.NewBuilder(fmt.Sprintf("T_%s", sys.TaskName(ref)))
	b.OwnClock(tv.x)
	// Time-driven events (releases, kills, completions) precede scheduler
	// reactions at the same instant.
	b.Priority(1)

	rtName := name("rt")
	xName := name("x")
	jobName := name("job")

	invActive := exprInv(nb, fmt.Sprintf("%s <= %d", rtName, D))
	invExec := exprInv(nb, fmt.Sprintf("%s <= %d && %s <= %d", xName, C, rtName, D))
	invDone := exprInv(nb, fmt.Sprintf("%s <= %d", rtName, P))

	stopX := sa.Stops(tv.x)
	release := b.Loc("Release", sa.Committed(), stopX)
	waitData := b.Loc("WaitData", sa.WithInvariant(invActive), stopX)
	waitExec := b.Loc("WaitExec", sa.WithInvariant(invActive), stopX)
	executing := b.Loc("Executing", sa.WithInvariant(invExec)) // x runs only here
	sendData := b.Loc("SendData", sa.Committed(), stopX)
	done := b.Loc("Done", sa.WithInvariant(invDone), stopX)
	finished := b.Loc("Finished", stopX)
	b.Init(release)

	// all_data_ready: every incoming link has delivered the message for the
	// current job index (is_data_ready_h >= job+1). Variable-only guard.
	ready := make([]string, len(incoming))
	for i, h := range incoming {
		ready[i] = fmt.Sprintf("is_data_ready_%d >= %s + 1", h, jobName)
	}
	allDataReady := strings.Join(ready, " && ")

	becomeReady := exprUpdate(nb, fmt.Sprintf("is_ready_%d_%d := 1", pi, ti))

	// Release: announce readiness immediately when data is available,
	// otherwise wait for deliveries.
	if len(incoming) == 0 {
		b.SendEdge(release, waitExec, nil, pv.readyCh, becomeReady)
	} else {
		gData := exprGuard(nb, allDataReady)
		b.SendEdge(release, waitExec, gData, pv.readyCh, becomeReady)
		b.Edge(release, waitData, exprGuard(nb, "!("+allDataReady+")"), sa.None, nil)

		// WaitData: deadline kill first (a job whose deadline is reached
		// cannot become ready), then the data-ready announcement.
		b.Edge(waitData, done,
			exprGuard(nb, fmt.Sprintf("%s == %d", rtName, D)), sa.None,
			exprUpdate(nb, fmt.Sprintf("is_failed_%d_%d := is_failed_%d_%d + 1", pi, ti, pi, ti)))
		// Participate in delivery broadcasts of every incoming link, per the
		// base type's interface; the readiness guard is re-evaluated after
		// any action regardless.
		for _, h := range incoming {
			b.RecvEdge(waitData, waitData, nil, m.linkReceiveCh[h], nil)
		}
		b.SendEdge(waitData, waitExec, gData, pv.readyCh, becomeReady)
	}

	// WaitExec: dispatched by the scheduler, or killed at the deadline.
	b.RecvEdge(waitExec, executing, nil, tv.execCh,
		exprUpdate(nb, fmt.Sprintf("is_ready_%d_%d := 0", pi, ti)))
	b.SendEdge(waitExec, done,
		exprGuard(nb, fmt.Sprintf("%s == %d", rtName, D)), pv.finishedCh,
		exprUpdate(nb, fmt.Sprintf(
			"is_ready_%d_%d := 0, is_failed_%d_%d := is_failed_%d_%d + 1, last_finished_%d := %d",
			pi, ti, pi, ti, pi, ti, pi, ti)))

	// Executing: completion first (it wins ties with preemption and the
	// deadline), then preemption (only while strictly below the WCET), then
	// the deadline kill.
	b.SendEdge(executing, sendData,
		exprGuard(nb, fmt.Sprintf("%s == %d", xName, C)), pv.finishedCh,
		exprUpdate(nb, fmt.Sprintf("last_finished_%d := %d", pi, ti)))
	b.RecvEdge(executing, waitExec,
		exprGuard(nb, fmt.Sprintf("%s < %d", xName, C)), tv.preemptCh,
		exprUpdate(nb, fmt.Sprintf("is_ready_%d_%d := 1", pi, ti)))
	b.SendEdge(executing, done,
		exprGuard(nb, fmt.Sprintf("%s == %d && %s < %d", rtName, D, xName, C)), pv.finishedCh,
		exprUpdate(nb, fmt.Sprintf(
			"is_failed_%d_%d := is_failed_%d_%d + 1, last_finished_%d := %d",
			pi, ti, pi, ti, pi, ti)))

	// SendData: broadcast completion data to all outgoing virtual links
	// (zero receivers are fine for tasks without outgoing messages).
	b.SendEdge(sendData, done, nil, tv.sendCh, nil)

	// Done: next release (resetting the release clock, execution stopwatch
	// and absolute deadline), or final quiescence after the last job.
	if nJobs > 1 {
		b.Edge(done, release,
			exprGuard(nb, fmt.Sprintf("%s == %d && %s < %d", rtName, P, jobName, nJobs-1)), sa.None,
			exprUpdate(nb, fmt.Sprintf(
				"%s := %s + 1, %s := 0, %s := 0, deadline_%d_%d := %s * %d + %d",
				jobName, jobName, rtName, xName, pi, ti, jobName, P, D)))
	}
	b.Edge(done, finished,
		exprGuard(nb, fmt.Sprintf("%s == %d && %s == %d", rtName, P, jobName, nJobs-1)), sa.None, nil)

	return b.Build()
}
