// Package model is the concrete automata library of the paper: parametric
// stopwatch automata for tasks (T), task schedulers (TS: FPPS, FPNPS, EDF),
// core schedulers (CS) and virtual links (L), plus Algorithm 1 — automatic
// construction of an NSA instance from a system configuration — and the
// mapping from NSA synchronization traces to system operation traces.
package model

import (
	"context"
	"fmt"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/sa"
	"stopwatchsim/internal/trace"
)

// ChanRole describes what a channel means at the system level.
type ChanRole uint8

// Channel roles in the general NSA.
const (
	RoleNone     ChanRole = iota
	RoleExec              // exec_jk: job execution start/resumption (→ EX)
	RolePreempt           // preempt_jk: job preemption (→ PR)
	RoleReady             // ready_j: ready job arrival at the scheduler
	RoleFinished          // finished_j: job finish by completion or deadline (→ FIN)
	RoleWakeup            // wakeup_j: window start
	RoleSleep             // sleep_j: window end
	RoleSend              // send_jk: job output to its virtual links
	RoleReceive           // receive_h: delivery on virtual link h
)

var roleNames = [...]string{
	RoleNone: "none", RoleExec: "exec", RolePreempt: "preempt", RoleReady: "ready",
	RoleFinished: "finished", RoleWakeup: "wakeup", RoleSleep: "sleep",
	RoleSend: "send", RoleReceive: "receive",
}

func (r ChanRole) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// ChanInfo ties a channel to its role and the system entity it belongs to.
type ChanInfo struct {
	Role ChanRole
	Task config.TaskRef // valid for RoleExec, RolePreempt, RoleSend
	Part int            // valid for RoleReady, RoleFinished, RoleWakeup, RoleSleep
	Link int            // valid for RoleReceive (message index)
}

// taskVars gathers per-task state handles.
type taskVars struct {
	isReady  sa.VarID
	isFailed sa.VarID
	prio     sa.VarID
	deadline sa.VarID
	job      sa.VarID // index of the current job (0-based)
	rt       sa.ClockID
	x        sa.ClockID // execution stopwatch

	execCh    sa.ChanID
	preemptCh sa.ChanID
	sendCh    sa.ChanID
}

// partVars gathers per-partition handles.
type partVars struct {
	readyCh    sa.ChanID
	finishedCh sa.ChanID
	wakeupCh   sa.ChanID
	sleepCh    sa.ChanID
	lastFin    sa.VarID // which task index synced finished last
	cur        sa.VarID // task index currently executing, -1 when none
}

// Model is an NSA instance constructed from a configuration, with the
// bookkeeping needed to interpret its traces at the system level.
type Model struct {
	Sys *config.System
	Net *nsa.Network

	// Horizon is the hyperperiod L: a run over [0, L] covers every job.
	Horizon int64

	// ChanInfos[ch] describes channel ch.
	ChanInfos []ChanInfo

	tasks         map[config.TaskRef]*taskVars
	parts         []partVars
	dataReady     []sa.VarID  // per message
	linkReceiveCh []sa.ChanID // per message
}

// Build runs Algorithm 1: it validates the configuration and constructs the
// NSA instance with one T automaton per task, one TS per partition, one CS
// per core and one L per message. The horizon is one hyperperiod, which
// covers every job; BuildCycles extends it.
func Build(sys *config.System) (*Model, error) {
	return BuildCycles(sys, 1)
}

// BuildCycles builds the model for a horizon of the given number of
// hyperperiods: tasks release cycles·L/P jobs and the window timetable
// wraps every L. One cycle decides schedulability (the schedule repeats
// identically, which TestTracePeriodicity verifies); longer horizons exist
// for studying the repetition itself.
func BuildCycles(sys *config.System, cycles int64) (m *Model, err error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cycles < 1 {
		return nil, fmt.Errorf("model: non-positive cycle count %d", cycles)
	}
	// Construction boundary: the component builders compile internally
	// generated expression sources with Must* helpers, which panic with
	// error values. A validated configuration should never trip them, but a
	// construction bug must surface as a diagnosable error to the caller
	// rather than crash a service. Non-error panics still propagate.
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(error)
			if !ok {
				panic(r)
			}
			m, err = nil, fmt.Errorf("model: internal construction failure for configuration %q: %w", sys.Name, re)
		}
	}()
	m = &Model{
		Sys:     sys,
		Horizon: cycles * sys.Hyperperiod(),
		tasks:   make(map[config.TaskRef]*taskVars),
		parts:   make([]partVars, len(sys.Partitions)),
	}
	nb := nsa.NewBuilder()

	// Declare all variables and channels first (the automata reference them
	// across partition boundaries through the data-flow guards).
	m.dataReady = make([]sa.VarID, len(sys.Messages))
	for h := range sys.Messages {
		m.dataReady[h] = nb.Var(fmt.Sprintf("is_data_ready_%d", h), 0)
	}
	for pi := range sys.Partitions {
		p := &sys.Partitions[pi]
		pv := &m.parts[pi]
		pv.readyCh = nb.Chan(fmt.Sprintf("ready_%d", pi))
		pv.finishedCh = nb.Chan(fmt.Sprintf("finished_%d", pi))
		pv.wakeupCh = nb.Chan(fmt.Sprintf("wakeup_%d", pi))
		pv.sleepCh = nb.Chan(fmt.Sprintf("sleep_%d", pi))
		pv.lastFin = nb.Var(fmt.Sprintf("last_finished_%d", pi), -1)
		pv.cur = nb.Var(fmt.Sprintf("cur_%d", pi), -1)
		for ti := range p.Tasks {
			ref := config.TaskRef{Part: pi, Task: ti}
			tv := &taskVars{}
			tv.isReady = nb.BoundedVar(fmt.Sprintf("is_ready_%d_%d", pi, ti), 0, 0, 1)
			tv.isFailed = nb.Var(fmt.Sprintf("is_failed_%d_%d", pi, ti), 0)
			tv.prio = nb.Var(fmt.Sprintf("prio_%d_%d", pi, ti), int64(p.Tasks[ti].Priority))
			tv.deadline = nb.Var(fmt.Sprintf("deadline_%d_%d", pi, ti), p.Tasks[ti].Deadline)
			tv.job = nb.Var(fmt.Sprintf("job_%d_%d", pi, ti), 0)
			tv.rt = nb.Clock(fmt.Sprintf("rt_%d_%d", pi, ti))
			tv.x = nb.Clock(fmt.Sprintf("x_%d_%d", pi, ti))
			tv.execCh = nb.Chan(fmt.Sprintf("exec_%d_%d", pi, ti))
			tv.preemptCh = nb.Chan(fmt.Sprintf("preempt_%d_%d", pi, ti))
			tv.sendCh = nb.BroadcastChan(fmt.Sprintf("send_%d_%d", pi, ti))
			m.tasks[ref] = tv
		}
	}
	m.linkReceiveCh = make([]sa.ChanID, len(sys.Messages))
	for h := range sys.Messages {
		m.linkReceiveCh[h] = nb.BroadcastChan(fmt.Sprintf("receive_%d", h))
	}

	// Automata, in Algorithm 1 order: per core, the partitions bound to it
	// (tasks then their scheduler), then the core scheduler; finally the
	// virtual links.
	for ci := range sys.Cores {
		for pi := range sys.Partitions {
			if sys.Partitions[pi].Core != ci {
				continue
			}
			for ti := range sys.Partitions[pi].Tasks {
				a, err := m.buildTask(nb, config.TaskRef{Part: pi, Task: ti})
				if err != nil {
					return nil, err
				}
				nb.Add(a)
			}
			a, err := m.buildScheduler(nb, pi)
			if err != nil {
				return nil, err
			}
			nb.Add(a)
		}
		a, err := m.buildCoreScheduler(nb, ci)
		if err != nil {
			return nil, err
		}
		nb.Add(a)
	}
	// Virtual links: fixed-delay automata for unrouted messages, switch
	// port automata (the switched-network extension) for routed ones.
	for h := range sys.Messages {
		if len(sys.RouteOf(h)) > 0 {
			continue
		}
		a, err := m.buildLink(nb, h)
		if err != nil {
			return nil, err
		}
		nb.Add(a)
	}
	if sys.Net != nil {
		now := nb.Clock("now") // never stopped: equals model time
		fwd := make(map[config.PortHop]sa.ChanID)
		for h := range sys.Messages {
			route := sys.RouteOf(h)
			for i := 1; i < len(route); i++ {
				fwd[config.PortHop{Message: h, Hop: i}] =
					nb.Chan(fmt.Sprintf("fwd_%d_%d", h, i))
			}
		}
		for p := range sys.Net.Ports {
			if len(sys.MessagesThroughPort(p)) == 0 {
				continue
			}
			a, err := m.buildPort(nb, p, fwd, now)
			if err != nil {
				return nil, err
			}
			nb.Add(a)
		}
	}

	net, err := nb.Build()
	if err != nil {
		return nil, err
	}
	m.Net = net

	// Channel role table for trace interpretation.
	m.ChanInfos = make([]ChanInfo, len(net.Chans))
	for pi := range sys.Partitions {
		pv := &m.parts[pi]
		m.ChanInfos[pv.readyCh] = ChanInfo{Role: RoleReady, Part: pi}
		m.ChanInfos[pv.finishedCh] = ChanInfo{Role: RoleFinished, Part: pi}
		m.ChanInfos[pv.wakeupCh] = ChanInfo{Role: RoleWakeup, Part: pi}
		m.ChanInfos[pv.sleepCh] = ChanInfo{Role: RoleSleep, Part: pi}
		for ti := range sys.Partitions[pi].Tasks {
			ref := config.TaskRef{Part: pi, Task: ti}
			tv := m.tasks[ref]
			m.ChanInfos[tv.execCh] = ChanInfo{Role: RoleExec, Task: ref}
			m.ChanInfos[tv.preemptCh] = ChanInfo{Role: RolePreempt, Task: ref}
			m.ChanInfos[tv.sendCh] = ChanInfo{Role: RoleSend, Task: ref}
		}
	}
	for h := range sys.Messages {
		m.ChanInfos[m.linkReceiveCh[h]] = ChanInfo{Role: RoleReceive, Link: h}
	}
	return m, nil
}

// MustBuild is Build panicking on error.
func MustBuild(sys *config.System) *Model {
	m, err := Build(sys)
	if err != nil {
		panic(err)
	}
	return m
}

// JobOf returns the current job index of the task in state s.
func (m *Model) JobOf(ref config.TaskRef, s *nsa.State) int {
	return int(s.Vars[m.tasks[ref].job])
}

// DataReadyVar returns the is_data_ready variable of message h.
func (m *Model) DataReadyVar(h int) sa.VarID { return m.dataReady[h] }

// TaskClocks returns the release-relative clock and the execution stopwatch
// of a task, for observers and tests.
func (m *Model) TaskClocks(ref config.TaskRef) (rt, x sa.ClockID) {
	tv := m.tasks[ref]
	return tv.rt, tv.x
}

// TaskChans returns the exec and preempt channels of a task.
func (m *Model) TaskChans(ref config.TaskRef) (exec, preempt sa.ChanID) {
	tv := m.tasks[ref]
	return tv.execCh, tv.preemptCh
}

// PartChans returns the ready, finished, wakeup and sleep channels of a
// partition.
func (m *Model) PartChans(pi int) (ready, finished, wakeup, sleep sa.ChanID) {
	pv := &m.parts[pi]
	return pv.readyCh, pv.finishedCh, pv.wakeupCh, pv.sleepCh
}

// Simulate interprets the model over one hyperperiod with the deterministic
// chooser and returns the system operation trace.
func (m *Model) Simulate() (*trace.Trace, nsa.Result, error) {
	return m.SimulateWith(nil)
}

// SimulateWith interprets the model with the given chooser (nil for the
// deterministic default), returning the system operation trace.
func (m *Model) SimulateWith(ch nsa.Chooser) (*trace.Trace, nsa.Result, error) {
	return m.SimulateContext(context.Background(), ch, nsa.Budget{})
}

// SimulateContext interprets the model under a context and resource budget.
// On cancellation or budget exhaustion the error is a *nsa.RunError and the
// returned trace holds the prefix of system events produced before the
// stop, so callers can report partial progress (jobs completed, model time
// reached).
func (m *Model) SimulateContext(ctx context.Context, ch nsa.Chooser, b nsa.Budget) (*trace.Trace, nsa.Result, error) {
	return m.SimulateEngine(ctx, nsa.Options{Chooser: ch, Budget: b})
}

// SimulateEngine interprets the model with caller-supplied engine options
// (e.g. BackendNaive or CheckEngine for differential validation of the
// compiled runtime). The model fills in its horizon and appends the
// trace-building listener; the remaining options pass through.
func (m *Model) SimulateEngine(ctx context.Context, opts nsa.Options) (*trace.Trace, nsa.Result, error) {
	tb := m.NewTraceBuilder()
	opts.Horizon = m.Horizon
	opts.Listeners = append(opts.Listeners, tb)
	eng := nsa.NewEngine(m.Net, opts)
	res, err := eng.RunContext(ctx)
	if err != nil {
		return tb.Trace(), res, err
	}
	return tb.Trace(), res, nil
}
