package model

import (
	"fmt"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/sa"
)

// portState bundles the shared-variable handles of one port automaton's
// FIFO: ring buffers of queued message indices and their arrival times,
// head/length counters, the message in service and its transmission time.
type portState struct {
	qmsg  int // base index of the message ring
	qtime int // base index of the arrival-time ring
	head  int
	qlen  int
	cur   int
	txcur int
	cap   int
	now   int // index of the global "now" clock
}

// buildPort constructs the automaton of switch output port p: a FIFO
// serialization point. Frames enqueue from sender-task completion
// broadcasts (first hop) or forward channels from the previous port; the
// port serves one frame at a time for the message's TxTime, then forwards
// it to the next hop or delivers it (is_data_ready++ and the receive
// broadcast). Same-instant arrivals are queued in message-index order, so
// the FIFO content — and with it the whole network — stays deterministic
// under any transition interleaving.
func (m *Model) buildPort(nb *nsa.Builder, p int, fwd map[config.PortHop]sa.ChanID, now sa.ClockID) (*sa.Automaton, error) {
	sys := m.Sys
	hops := sys.MessagesThroughPort(p)
	name := fmt.Sprintf("port_%d", p)

	// Queue capacity: every routed message can have at most L/P frames
	// outstanding simultaneously.
	capacity := 0
	for _, ph := range hops {
		msg := &sys.Messages[ph.Message]
		period := sys.Partitions[msg.SrcPart].Tasks[msg.SrcTask].Period
		capacity += int(m.Horizon / period)
	}
	if capacity < 1 {
		capacity = 1
	}

	ps := &portState{
		qmsg:  int(nb.VarArray(name+"_qmsg", capacity, -1)),
		qtime: int(nb.VarArray(name+"_qtime", capacity, -1)),
		head:  int(nb.Var(name+"_head", 0)),
		qlen:  int(nb.Var(name+"_len", 0)),
		cur:   int(nb.Var(name+"_cur", -1)),
		txcur: int(nb.Var(name+"_txcur", 0)),
		cap:   capacity,
		now:   int(now),
	}
	y := nb.Clock(name + "_y")

	b := sa.NewBuilder(fmt.Sprintf("Port_%s", sys.Net.Ports[p].Name))
	b.OwnClock(y)
	b.Priority(1) // network events are time-driven, like task releases

	idle := b.Loc("Idle", sa.Stops(y))
	busy := b.Loc("Busy", sa.WithInvariant(expr.MustCompileInvariant(
		expr.MustParseResolve(fmt.Sprintf("%s_y <= %s_txcur", name, name), nb.Scope(), expr.TypeBool))))
	b.Init(idle)

	// Input edges: receptive in Idle and Busy alike, so enqueues never
	// block. First-hop inputs come from sender-task send broadcasts (one
	// edge per distinct sender, enqueuing all of that sender's messages
	// entering the network at this port); later hops from forward channels.
	firstHop := make(map[config.TaskRef][]int) // sender -> message indices
	for _, ph := range hops {
		if ph.Hop != 0 {
			continue
		}
		msg := &sys.Messages[ph.Message]
		ref := config.TaskRef{Part: msg.SrcPart, Task: msg.SrcTask}
		firstHop[ref] = append(firstHop[ref], ph.Message)
	}
	// Declared footprints: the FIFO rings as whole ranges, since enqueue and
	// dequeue touch data-dependent slots.
	ring := make([]sa.VarID, 0, 2*capacity)
	for i := 0; i < capacity; i++ {
		ring = append(ring, sa.VarID(ps.qmsg+i), sa.VarID(ps.qtime+i))
	}
	enqueueWrites := &sa.Deps{Vars: append(append([]sa.VarID(nil), ring...), sa.VarID(ps.qlen))}
	addInput := func(loc sa.LocID, ch sa.ChanID, msgs []int, desc string) {
		msgs = append([]int(nil), msgs...)
		u := &sa.UpdateFunc{Desc: desc, F: func(env expr.MutableEnv) {
			for _, h := range msgs {
				ps.enqueue(env, int64(h))
			}
		}, Writes: enqueueWrites}
		b.RecvEdge(loc, loc, nil, ch, u)
	}
	for ti := range sys.Partitions {
		for tj := range sys.Partitions[ti].Tasks {
			ref := config.TaskRef{Part: ti, Task: tj}
			if msgs, ok := firstHop[ref]; ok {
				desc := fmt.Sprintf("%s: enqueue from %s", name, sys.TaskName(ref))
				addInput(idle, m.tasks[ref].sendCh, msgs, desc)
				addInput(busy, m.tasks[ref].sendCh, msgs, desc)
			}
		}
	}
	for _, ph := range hops {
		if ph.Hop == 0 {
			continue
		}
		ch := fwd[ph]
		desc := fmt.Sprintf("%s: enqueue %s (hop %d)", name, sys.Messages[ph.Message].Name, ph.Hop)
		addInput(idle, ch, []int{ph.Message}, desc)
		addInput(busy, ch, []int{ph.Message}, desc)
	}

	// Service start: pop the queue head.
	txOf := make(map[int64]int64)
	for _, ph := range hops {
		txOf[int64(ph.Message)] = sys.Messages[ph.Message].TxTime
	}
	b.Edge(idle, busy, exprGuard(nb, name+"_len > 0"), sa.None,
		&sa.UpdateFunc{Desc: name + ": start service", F: func(env expr.MutableEnv) {
			h := ps.dequeue(env)
			env.SetVar(ps.cur, h)
			env.SetVar(ps.txcur, txOf[h])
			env.SetClock(int(y), 0)
		}, Writes: &sa.Deps{
			Vars: append(append([]sa.VarID(nil), ring...),
				sa.VarID(ps.head), sa.VarID(ps.qlen), sa.VarID(ps.cur), sa.VarID(ps.txcur)),
			Clocks: []sa.ClockID{y},
		}})

	// Service completion: forward to the next hop or deliver. The guard is
	// a Go function so that it wakes only for the message in service.
	for _, ph := range hops {
		ph := ph
		route := sys.RouteOf(ph.Message)
		g := &sa.GuardFunc{
			Desc: fmt.Sprintf("%s_y == %s_txcur && %s_cur == %d", name, name, name, ph.Message),
			F: func(env expr.Env) bool {
				return env.Var(ps.cur) == int64(ph.Message) &&
					env.Clock(int(y)) == env.Var(ps.txcur)
			},
			Reads: &sa.Deps{
				Vars:   []sa.VarID{sa.VarID(ps.cur), sa.VarID(ps.txcur)},
				Clocks: []sa.ClockID{y},
			},
			NextEnableF: func(env expr.Env, running func(int) bool) int64 {
				if env.Var(ps.cur) != int64(ph.Message) || !running(int(y)) {
					return expr.NoBound
				}
				if d := env.Var(ps.txcur) - env.Clock(int(y)); d >= 1 {
					return d
				}
				return expr.NoBound
			},
		}
		if ph.Hop == len(route)-1 {
			b.SendEdge(busy, idle, g, m.linkReceiveCh[ph.Message], exprUpdate(nb, fmt.Sprintf(
				"is_data_ready_%d := is_data_ready_%d + 1, %s_cur := -1", ph.Message, ph.Message, name)))
		} else {
			next := fwd[config.PortHop{Message: ph.Message, Hop: ph.Hop + 1}]
			b.SendEdge(busy, idle, g, next, exprUpdate(nb, name+"_cur := -1"))
		}
	}
	return b.Build()
}

// enqueue appends message h with the current model time, then restores the
// deterministic order: entries with equal arrival time are sorted by
// message index regardless of the interleaving that delivered them.
func (ps *portState) enqueue(env expr.MutableEnv, h int64) {
	l := env.Var(ps.qlen)
	if int(l) >= ps.cap {
		panic(&expr.RuntimeError{
			Msg:  fmt.Sprintf("port queue overflow (capacity %d)", ps.cap),
			Expr: "port enqueue",
		})
	}
	now := env.Clock(ps.now)
	pos := (env.Var(ps.head) + l) % int64(ps.cap)
	env.SetVar(ps.qmsg+int(pos), h)
	env.SetVar(ps.qtime+int(pos), now)
	env.SetVar(ps.qlen, l+1)
	// Bubble back through the same-time suffix.
	for i := l; i > 0; i-- {
		cur := (env.Var(ps.head) + i) % int64(ps.cap)
		prev := (env.Var(ps.head) + i - 1) % int64(ps.cap)
		if env.Var(ps.qtime+int(prev)) == now && env.Var(ps.qmsg+int(prev)) > env.Var(ps.qmsg+int(cur)) {
			pm, pt := env.Var(ps.qmsg+int(prev)), env.Var(ps.qtime+int(prev))
			env.SetVar(ps.qmsg+int(prev), env.Var(ps.qmsg+int(cur)))
			env.SetVar(ps.qtime+int(prev), env.Var(ps.qtime+int(cur)))
			env.SetVar(ps.qmsg+int(cur), pm)
			env.SetVar(ps.qtime+int(cur), pt)
		} else {
			break
		}
	}
}

// dequeue pops the head message index.
func (ps *portState) dequeue(env expr.MutableEnv) int64 {
	head := env.Var(ps.head)
	h := env.Var(ps.qmsg + int(head))
	env.SetVar(ps.qmsg+int(head), -1)
	env.SetVar(ps.qtime+int(head), -1)
	env.SetVar(ps.head, (head+1)%int64(ps.cap))
	env.SetVar(ps.qlen, env.Var(ps.qlen)-1)
	return h
}
